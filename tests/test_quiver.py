import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jwcat.quiver import (ConstructionError, PathAlgebra, Path, Quiver,
                          _bimodule_map_from_generator_images,
                          algebra_as_bimodule, bimodule_maps_alpha_beta_gamma,
                          build_B, build_C, build_theta,
                          koszul_dual, structure_map_on_column, zigzag_quiver)


ARROWS = st.lists(st.sampled_from("abcx"), max_size=3).map(tuple)
VERTICES = st.sampled_from((None, "1", "2", "*"))


@pytest.fixture(scope="module")
def B():
    return build_B()


@pytest.fixture(scope="module")
def theta(B):
    return build_theta(B)


class TestPathAlgebraB:
    def test_graded_dimensions(self, B):
        assert B.graded_dimensions(3) == [2, 2, 1, 0]

    def test_degree_pieces(self, B):
        assert {p.word() for p in B.basis_by_degree[0]} == {"e(1)", "e(2)"}
        assert {p.word() for p in B.basis_by_degree[1]} == {"a", "b"}
        assert {p.word() for p in B.basis_by_degree[2]} == {"ab"}

    def test_one_vertex_no_arrows(self):
        q = Quiver(("v",), ())
        alg = PathAlgebra(q, [], d_max=3)
        assert alg.graded_dimensions(2) == [1, 0, 0]

    def test_bad_relation_rejected(self):
        # aa is not composable in the two-vertex quiver
        with pytest.raises(ConstructionError):
            PathAlgebra(zigzag_quiver(), [("a", "a")])

    def test_sandwiches(self, B):
        a, b = B.arrow_element("a"), B.arrow_element("b")
        e1, e2 = B.idempotent("1"), B.idempotent("2")
        assert e2 * a * e1 == a
        assert e1 * b * e2 == b
        c = a * b
        assert e2 * c * e2 == c

    def test_multiplication_table(self, B):
        a, b = B.arrow_element("a"), B.arrow_element("b")
        e1 = B.idempotent("1")
        assert (a * b).word() == "ab"
        assert (b * a).is_zero()
        assert e1 * e1 == e1
        assert (a * b * a).is_zero()
        assert (b * a * b).is_zero()

    def test_associativity_exhaustive(self, B):
        elems = [B.element({p: Fraction(1)}) for p in B.basis]
        for x in elems:
            for y in elems:
                for z in elems:
                    assert (x * y) * z == x * (y * z)

    def test_radical_nilpotent(self, B):
        rad = [B.element({p: Fraction(1)}) for p in B.radical_basis()]
        for x in rad:
            for y in rad:
                for z in rad:
                    assert (x * y * z).is_zero()

    def test_paths_hash_and_compare_by_value(self, B):
        p, q = Path(("a", "b")), Path(tuple("ab"))
        assert p is q and p == q and hash(p) == hash(q)
        assert {p: 1}[q] == 1 and Path((), "1") != Path((), "2")
        assert repr(p) == "Path(arrows=('a', 'b'), vertex=None)"
        assert pickle.loads(pickle.dumps(p)) == p
        assert all(B.element({path: 1}).terms == {Path(path.arrows, path.vertex): 1}
                   for path in B.basis)

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(ARROWS, VERTICES), st.tuples(ARROWS, VERTICES))
    def test_paths_are_canonical(self, f, g):
        p, q = Path(*f), Path(*g)
        assert p is Path(tuple(list(f[0])), f[1]) and (p.arrows, p.vertex) == f
        assert (p is q) == (f == g) and (p == q) == (f == g)
        assert pickle.loads(pickle.dumps(p)) is p
        assert copy.copy(p) is p and copy.deepcopy([p])[0] is p

    def test_arrow_reads_its_quiver(self, B):
        assert B.quiver.arrow("b").source == "2"
        with pytest.raises(KeyError):
            B.quiver.arrow("x")
        q, r = build_B().quiver, build_B().quiver
        assert q is not r and q == r and hash(q) == hash(r)
        assert q != Quiver(q.vertices, q.arrows[:1])

    def test_json_roundtrip(self, B):
        import json
        blob = json.dumps(B.to_json(), sort_keys=True)
        B2 = PathAlgebra.from_json(json.loads(blob))
        assert json.dumps(B2.to_json(), sort_keys=True) == blob


class TestAlgebraC:
    def test_c_structure(self):
        C = build_C()
        assert C.graded_dimensions(3) == [1, 0, 1, 0]
        x = C.arrow_element("x")
        assert (x * x).is_zero()
        assert x.degree() == 2


class TestKoszulDual:
    def test_dual_dimensions(self, B):
        dual, _ = koszul_dual(B)
        assert dual.graded_dimensions(3) == [2, 2, 1, 0]

    def test_dual_relation_kills_image_of_relation(self, B):
        dual, corr = koszul_dual(B)
        phi = corr["phi"]
        a, b = B.arrow_element("a"), B.arrow_element("b")
        assert (phi(b) * phi(a)).is_zero()          # image of the dead word dies
        assert not (phi(a) * phi(b)).is_zero()      # image of ab survives

    def test_phi_table(self, B):
        dual, corr = koszul_dual(B)
        phi = corr["phi"]
        assert phi(B.arrow_element("a")) == dual.arrow_element("a*")
        assert phi(B.arrow_element("b")) == dual.arrow_element("b*")
        assert phi(B.idempotent("1")) == dual.idempotent("2")
        assert phi(B.idempotent("2")) == dual.idempotent("1")
        assert corr["arrow_map"] == {"a": "a*", "b": "b*"}

    def test_phi_is_algebra_isomorphism(self, B):
        dual, corr = koszul_dual(B)
        phi = corr["phi"]
        basis_elems = [B.element({p: Fraction(1)}) for p in B.basis]
        images = set()
        for x in basis_elems:
            for y in basis_elems:
                assert phi(x * y) == phi(x) * phi(y)
        for x in basis_elems:
            fx = phi(x)
            assert not fx.is_zero()
            deg = x.degree()
            assert fx.degree() == deg
            images.add(next(iter(fx.terms)))
        assert len(images) == len(dual.basis)  # bijective on bases

    def test_dual_associativity_exhaustive(self, B):
        dual, _ = koszul_dual(B)
        elems = [dual.element({p: Fraction(1)}) for p in dual.basis]
        for x in elems:
            for y in elems:
                for z in elems:
                    assert (x * y) * z == x * (y * z)

    def test_unsupported_shape(self):
        C = build_C()
        with pytest.raises(ConstructionError):
            koszul_dual(C)


class TestTheta:
    def test_total_dimension(self, theta):
        # (paths into 2) x (paths out of 2) = {e(2),b,ab} x {e(2),a,ab}
        assert theta.dim() == 9

    def test_lowest_degree(self, theta):
        assert theta.lowest_degree() == -1
        lows = [v for v in theta.basis if v.degree == -1]
        assert len(lows) == 1 and lows[0].label == "e(2)⊗e(2)"

    def test_degrees(self, theta):
        assert theta.degrees() == {-1: 1, 0: 2, 1: 3, 2: 2, 3: 1}

    def test_outer_actions(self, B, theta):
        idx = theta.index
        n = theta.dim()

        def unit(i):
            v = [Fraction(0)] * n
            v[i] = Fraction(1)
            return v

        e2e2 = next(i for (p, q), i in idx.items()
                    if p.word() == "e(2)" and q.word() == "e(2)")
        b_e2 = next(i for (p, q), i in idx.items()
                    if p.word() == "b" and q.word() == "e(2)")
        img = theta.act(B.arrow_element("b"), left=True).apply(unit(e2e2))
        assert img == unit(b_e2)
        # per the multiplication table, right-multiplication by b kills the
        # vectors whose right factor is e(2) or ab, and sends b⊗a to b⊗ab
        b_a = next(i for (p, q), i in idx.items()
                   if p.word() == "b" and q.word() == "a")
        b_ab = next(i for (p, q), i in idx.items()
                    if p.word() == "b" and q.word() == "ab")
        img = theta.act(B.arrow_element("b"), left=False).apply(unit(b_a))
        assert img == unit(b_ab)
        img = theta.act(B.arrow_element("b"), left=False).apply(unit(b_e2))
        assert all(c == 0 for c in img)
        b_abab = next(i for (p, q), i in idx.items()
                      if p.word() == "b" and q.word() == "ab")
        img = theta.act(B.arrow_element("b"), left=False).apply(unit(b_abab))
        assert all(c == 0 for c in img)

    def test_actions_commute_exhaustive(self, B, theta):
        gens = [a.name for a in B.quiver.arrows] + ["e(1)", "e(2)"]
        for g in gens:
            for h in gens:
                assert (theta.left_action[g] * theta.right_action[h]
                        == theta.right_action[h] * theta.left_action[g])


@pytest.fixture(scope="module")
def maps(B, theta):
    return bimodule_maps_alpha_beta_gamma(B, theta)


class TestAlphaBetaGamma:

    def test_alpha_on_e1(self, B, theta, maps):
        alpha, _, _ = maps
        reg = algebra_as_bimodule(B)
        v = [Fraction(0)] * reg.dim()
        v[reg.index[Path((), "1")]] = Fraction(1)
        img = alpha(v)
        ba = next(i for (p, q), i in theta.index.items()
                  if p.word() == "b" and q.word() == "a")
        want = [Fraction(0)] * theta.dim()
        want[ba] = Fraction(1)
        assert img == want

    def test_beta_on_generator(self, B, theta, maps):
        _, beta, _ = maps
        idx = theta.index
        e2e2 = next(i for (p, q), i in idx.items()
                    if p.word() == "e(2)" and q.word() == "e(2)")
        c_e2 = next(i for (p, q), i in idx.items()
                    if p.word() == "ab" and q.word() == "e(2)")
        e2_c = next(i for (p, q), i in idx.items()
                    if p.word() == "e(2)" and q.word() == "ab")
        v = [Fraction(0)] * theta.dim()
        v[e2e2] = Fraction(1)
        img = beta(v)
        want = [Fraction(0)] * theta.dim()
        want[c_e2], want[e2_c] = Fraction(1), Fraction(-1)
        assert img == want

    def test_degrees(self, maps):
        alpha, beta, gamma = maps
        assert (alpha.degree, beta.degree, gamma.degree) == (1, 2, 2)

    def test_consecutive_compositions_vanish(self, maps):
        alpha, beta, gamma = maps
        assert beta.compose(alpha).is_zero()
        assert gamma.compose(beta).is_zero()
        assert beta.compose(gamma).is_zero()

    def test_table_built_maps_equal_the_word_pair_maps(self, B, theta, maps):
        ref = ref_bimodule_maps_alpha_beta_gamma(B, theta)
        for got, want in zip(maps, ref):
            assert (got.name, got.degree) == (want.name, want.degree)
            assert (got.source is theta) == (want.source is theta)
            assert got.matrix == want.matrix

    def test_one_rule_places_the_maps_on_the_columns(self):
        assert [structure_map_on_column(k) for k in range(6)] == \
            ["alpha", "beta", "gamma", "beta", "gamma", "beta"]


def ref_bimodule_maps_alpha_beta_gamma(B, theta):
    """The structure maps from their generator images spelled as word pairs,
    as they were stated before the structure-map table: alpha sends e(2) to
    ab⊗e(2) + e(2)⊗ab and e(1) to b⊗a, beta and gamma send e(2)⊗e(2) to
    ab⊗e(2) ∓ e(2)⊗ab."""
    reg = algebra_as_bimodule(B)

    def theta_vec(pairs):
        v = [Fraction(0)] * theta.dim()
        for pw, qw, coef in pairs:
            v[next(i for (p, q), i in theta.index.items()
                   if p.word() == pw and q.word() == qw)] += coef
        return v

    e1, e2 = Path((), "1"), Path((), "2")
    e2e2 = (e2, e2)
    alpha = _bimodule_map_from_generator_images(
        reg, theta, {e2: theta_vec([("ab", "e(2)", 1), ("e(2)", "ab", 1)]),
                     e1: theta_vec([("b", "a", 1)])}, degree=1, name="alpha")
    beta = _bimodule_map_from_generator_images(
        theta, theta, {e2e2: theta_vec([("ab", "e(2)", 1), ("e(2)", "ab", -1)])},
        degree=2, name="beta")
    gamma = _bimodule_map_from_generator_images(
        theta, theta, {e2e2: theta_vec([("ab", "e(2)", 1), ("e(2)", "ab", 1)])},
        degree=2, name="gamma")
    return alpha, beta, gamma
