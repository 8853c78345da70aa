"""The ladder solver: chain maps, homotopies and intertwining identifications
on complexes where the answer is known by hand, and the seam walk and the
equation cut that keep the ladders of ``duality-maps`` the same size at
every window."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jwcat import complexes, verify
from jwcat.complexes import (LEFT_TAIL, RIGHT_TAIL, AlgMatrix, LadderFamily,
                             LadderSystem, ProjChainMap, ProjComplex, Summand,
                             TailSpec, _allowed_paths, _chain_map_invertible,
                             _common_tail,
                             _intertwining_system, _solve_intertwining,
                             _tail_break, chain_maps_homotopic, detect_tail,
                             gaussian_reduce, iso_in_homotopy_category,
                             ladder_degrees, maps_agree_under_identification,
                             shift_summands, solve_chain_maps, solve_homotopy)
from jwcat.exprs import evaluate, parse
from jwcat.functors import P_on_object, Setup
from jwcat.linalg import kernel_from_columns, unit_vector
from jwcat.modules import projective, simple
from jwcat.quiver import ConstructionError, build_B
from jwcat.resolutions import projective_resolution
from test_tails import CORPUS_NAMES, corpus
from test_window_work import cluttered, cluttered_complexes, small_complexes


@pytest.fixture(scope="module")
def B():
    return build_B()


def cone(B, scalar=1):
    """P(2) --scalar·e(2)--> P(2) in degrees 0, 1 (contractible unless 0)."""
    t = (Summand("2", 0),)
    d = {0: AlgMatrix(B, t, t, [[B.idempotent("2").scale(scalar)]])}
    return ProjComplex(B, {0: t, 1: t}, d, name=f"cone({scalar})")


def cone_chain(B, hi=7):
    """Cones P(2)<-2k> --e(2)--> P(2)<-2k> in degrees 2k, 2k+1 for all k >= 0,
    stored on degrees 0..hi: a right tail of period 2 and shift -2."""
    e2 = B.idempotent("2")
    terms = {i: (Summand("2", -2 * (i // 2)),) for i in range(hi + 1)}
    diffs = {i: AlgMatrix(B, terms[i + 1], terms[i], [[e2]])
             for i in range(0, hi, 2)}
    return ProjComplex(B, terms, diffs, TailSpec(RIGHT_TAIL, 2, 2, -2), "cones")


def is_chain_map(f, window):
    lo, hi = window
    return all(f.target.diff(i) * f.component(i) == f.component(i + 1) * f.source.diff(i)
               for i in range(lo, hi))


class TestDegreeRule:
    def test_no_tail_covers_the_window(self):
        assert ladder_degrees((0, 5), 0, None) == range(0, 6)

    def test_right_tail_seam_waits_for_the_shifted_target(self):
        tail = TailSpec(RIGHT_TAIL, 2, 2, -2)
        assert ladder_degrees((0, 20), 0, tail) == range(0, 4)
        # h_i: X^i -> Y^{i-1} is periodic only once Y^{i-1} is, from 3 on
        assert ladder_degrees((0, 20), -1, tail) == range(0, 5)

    def test_left_tail_runs_to_the_window_edge_inward(self):
        tail = TailSpec("left", -7, 1, 2)
        assert ladder_degrees((-20, 0), 0, tail) == range(-7, 1)
        assert ladder_degrees((-20, 1), -1, tail) == range(-7, 2)

    def test_window_starting_inside_the_tail(self, B):
        # the seam is taken at the window edge: unknowns at 3 and 4 only
        x = cone_chain(B)
        assert ladder_degrees((3, 7), 0, x.tail) == range(3, 5)
        sols = solve_chain_maps(x, x, (3, 7))
        assert sols and all(is_chain_map(f, (3, 7)) for f in sols)

    def test_unknown_order_is_family_degree_row_column_path(self, B):
        t = (Summand("2", 0), Summand("2", 2))
        x = ProjComplex(B, {0: t, 1: t[:1]}, {}, name="x")
        ladder = LadderSystem([LadderFamily(x, x, 0, (0, 1)),
                               LadderFamily(x, x, -1, (0, 2))])
        e2, c = B.idempotent("2"), B.path_element(("a", "b"))
        words = [(k, i, r, col, path.word())
                 for k, i, (r, col, path) in ladder.unknowns]
        assert words == [
            (0, 0, 0, 0, e2.word()), (0, 0, 0, 1, c.word()), (0, 0, 1, 1, e2.word()),
            (0, 1, 0, 0, e2.word()),
            (1, 1, 0, 0, e2.word())]
        # the homotopy family has unknown degrees 0 and 2 without slots
        assert ladder.degrees == [range(0, 2), range(0, 3)]
        assert ladder.n == 5


def block_degrees(blocks):
    """The degree i of each chain block, read off the first component it
    reads, φ_i."""
    return [reads[0][1] for reads, _ in blocks]


class TestEquationCut:
    """``LadderSystem.cut`` keeps a block list up to the innermost degree D
    from which each block repeats the one a period in and one period of
    repeats from it, D .. D + o·(p - 1), and every block without one shared
    tail pattern (the equation cut of "Windows and margins")."""

    def test_without_a_tail_every_degree_is_kept(self, B):
        t = (Summand("2", 0),)
        x = ProjComplex(B, {i: t for i in range(6)}, {}, name="flat")
        ladder = LadderSystem([LadderFamily(x, x, 0, (0, 5))])
        # block i reads φ_i and φ_(i+1): every i below the top
        assert block_degrees(ladder.chain_blocks(0)) == list(range(0, 5))

    def test_right_tail_keeps_one_period_of_repeats(self, B):
        """cone_chain has period 2 and seam 2. The chain maps' unknowns
        stop at 3, so φ_i and φ_(i+1) are both copies from D = 4 on, and the
        blocks are kept through D + 1 = 5. The homotopy's unknowns stop at 4,
        but h_4: P(2)<-4> -> P(2)<-2> and h_2 have no path of degree -2, so
        h_4 is a copy too, D = 4 again, and the blocks end at 5."""
        x = cone_chain(B, hi=21).materialize(-1, 21)
        chain = LadderSystem([LadderFamily(x, x, 0, (0, 20), x.tail)])
        assert chain.degrees[0] == range(0, 4)
        assert block_degrees(chain.chain_blocks(0)) == list(range(0, 6))
        homotopy = LadderSystem([LadderFamily(x, x, -1, (0, 20), x.tail)])
        assert homotopy.degrees[0] == range(0, 5)
        assert block_degrees(homotopy.chain_blocks(0)) == list(range(0, 6))

    def test_left_tail_keeps_one_period_of_repeats(self):
        """P(P(1)) has period 1 and shift 2 from -7. The chain maps'
        unknowns run from -7, so φ_i and φ_(i+1) are both copies from
        D = -9 out, and the blocks are kept from D. Its homotopies
        h_i: P(2)<1 - 2i> -> P(2)<3 - 2i> have no path of degree -2 in any
        degree, so every component is zero and a copy wherever the terms
        repeat: from -1 out, as degree 1 is empty. So h_(i+1) is a copy for
        i <= -2, and the blocks are kept from D = -2."""
        setup = Setup.create()
        x = P_on_object(setup, projective(setup.B, "1"), depth=8).materialize(-21, 1)
        tail = TailSpec(LEFT_TAIL, -7, 1, 2)
        assert x.tail == tail
        chain = LadderSystem([LadderFamily(x, x, 0, (-20, 0), tail)])
        assert chain.degrees[0] == range(-7, 1)
        assert block_degrees(chain.chain_blocks(0)) == list(range(-9, 0))
        homotopy = LadderSystem([LadderFamily(x, x, -1, (-20, 1), tail)])
        assert homotopy.degrees[0] == range(-7, 2) and homotopy.n == 0
        assert block_degrees(homotopy.chain_blocks(0)) == list(range(-2, 1))

    def test_a_given_map_that_never_repeats_keeps_every_degree(self, B):
        """f - g is nonzero at 19 only, the top block's degree, so block 19
        does not repeat block 17 and D lies past the window edge."""
        x = cone_chain(B, hi=21).materialize(-1, 21)
        homotopy = LadderSystem([LadderFamily(x, x, -1, (0, 20), x.tail)])
        e2 = AlgMatrix.identity(B, x.term(19))
        given = ProjChainMap(x, x, {19: e2}, validate=False)
        assert block_degrees(homotopy.chain_blocks(0, given)) == list(range(0, 20))


class TestPeriodicAnsatz:
    def test_the_ladder_period_is_twice_the_lcm(self, B):
        def tailed(period, shift):
            t = (Summand("2", 0),)
            return ProjComplex(B, {i: t for i in range(0, 9)}, {},
                               TailSpec(RIGHT_TAIL, 2, period, shift), f"p{period}")
        assert _common_tail(tailed(1, 0), tailed(1, 0)) == TailSpec(RIGHT_TAIL, 2, 2, 0)
        assert _common_tail(tailed(1, 0), tailed(2, 0)) == TailSpec(RIGHT_TAIL, 2, 4, 0)

    def test_a_sign_alternating_isomorphism_is_found(self):
        """P(P(1)[1]) has d = ab in every degree and P(P(1))[1] has d = -ab.
        They are isomorphic through φ_i = (-1)^i, of period 2, which an
        ansatz of the tails' own period 1 misses: it used to answer
        "false" ("no nonzero chain maps between minimal models")."""
        setup = Setup.create()
        x, y = (evaluate(setup, parse(e), (0, 6), 13).complex
                for e in ("P(P(1)[1])", "P(P(1))[1]"))
        assert x.tail.period == y.tail.period == 1
        v = iso_in_homotopy_category(x, y, (-10, -1))
        assert v.value == "true", v.reason
        inv = v.witness[2]
        assert _chain_map_invertible(inv, (-10, -1))
        # one P(2) per degree: the witness changes sign from degree to degree
        entries = [inv.component(i).entries[0][0] for i in range(-10, 0)]
        assert all(not e.is_zero() and f == e.scale(-1)
                   for e, f in zip(entries, entries[1:]))

    def test_no_periodic_chain_map_is_false_only_between_bounded_models(self, B):
        setup = Setup.create()
        x = P_on_object(setup, projective(setup.B, "1"), depth=8)
        p2 = ProjComplex.from_summand(B, "2", 0)
        with mock.patch("jwcat.complexes.solve_chain_maps", return_value=[]):
            tailed = iso_in_homotopy_category(x, x, (-8, 0))
            bounded = iso_in_homotopy_category(p2, p2, (0, 0))
        assert tailed.value == "inconclusive"
        assert tailed.reason == "no nonzero periodic chain maps between minimal models"
        assert bounded.value == "false"
        assert bounded.reason == "no nonzero chain maps between minimal models"


class TestHomotopySolve:
    def test_identity_on_a_cone_is_nullhomotopic(self, B):
        x = cone(B)
        idm, zero = ProjChainMap.identity(x), ProjChainMap(x, x, {})
        v = chain_maps_homotopic(idm, zero, (0, 1))
        assert v.value == "true" and v.reason == ""
        assert v.witness.witnesses(idm, zero, (0, 1))

    def test_identity_on_a_right_tailed_chain_of_cones(self, B):
        x = cone_chain(B)
        idm, zero = ProjChainMap.identity(x), ProjChainMap(x, x, {})
        v = chain_maps_homotopic(idm, zero, (0, 7))
        assert v.value == "true" and v.reason == ""
        assert v.witness.witnesses(idm, zero, (0, 7))
        # the tail components are the periodic copies of one period
        assert v.witness.component(7) == v.witness.component(5).shifted(-2)

    def test_maps_differing_on_homology_are_not_homotopic(self, B):
        # P(2) --0--> P(2): one unknown slot h_1 = λ·e(2), and dh + hd = 0
        x = cone(B, scalar=0)
        ladder = LadderSystem([LadderFamily(x, x, -1, (0, 2))])
        assert ladder.n == 1
        v = chain_maps_homotopic(ProjChainMap.identity(x), ProjChainMap(x, x, {}), (0, 1))
        assert v.value == "false"

    def test_reduction_witness_is_reproved(self, B):
        x = projective_resolution(simple(B, "1"), 4)
        e2 = B.idempotent("2")
        padded = ProjComplex(B, {**x.terms, 1: (Summand("2", 0),), 2: (Summand("2", 0),)},
                             {**x.diffs, 1: AlgMatrix(B, (Summand("2", 0),),
                                                      (Summand("2", 0),), [[e2]])},
                             name="res⊕cone")
        red = gaussian_reduce(padded)
        GF = red.from_reduced.compose(red.to_reduced)
        assert not (ProjChainMap.identity(padded) - GF).is_zero()
        v = chain_maps_homotopic(ProjChainMap.identity(padded), GF, padded.window())
        assert v.value == "true" and v.reason == ""

    @pytest.mark.parametrize("side", [RIGHT_TAIL, LEFT_TAIL])
    def test_a_difference_past_the_seam_is_seen(self, B, side):
        """x is P(2) in every degree with d = 0, so dh + hd = 0 and only
        equal maps are homotopic. f = id and g = id but at the edge of a
        wide window: f - g repeats nowhere, so the homotopy's equations
        run to the edge, far past the seam's two periods, and see it."""
        o, t = (1 if side == RIGHT_TAIL else -1), (Summand("2", 0),)
        x = ProjComplex(B, {o * m: t for m in range(41)}, {},
                        TailSpec(side, 2 * o, 1, 0), "flat")
        seam = _common_tail(x, x).start
        f = ProjChainMap.identity(x)
        g = ProjChainMap(x, x, {i: m for i, m in f.maps.items() if i != 40 * o})
        assert o * (40 * o - seam) > 2 * 2 + 1
        v = chain_maps_homotopic(f, g, x.window())
        assert v.value == "false", v.reason

    @settings(max_examples=25, deadline=None)
    @given(which=st.sampled_from(["res-L1", "res-L2", "cone"]),
           coeffs=st.lists(st.integers(-3, 3), min_size=16, max_size=16))
    def test_adding_a_boundary_keeps_the_homotopy_class(self, B, which, coeffs):
        x = {"res-L1": lambda: projective_resolution(simple(B, "1"), 4),
             "res-L2": lambda: projective_resolution(simple(B, "2"), 4),
             "cone": lambda: cone(B)}[which]()
        lo, hi = x.window()
        ladder = LadderSystem([LadderFamily(x, x, -1, (lo, hi + 1))])
        h = ladder.build(coeffs[:ladder.n])[0]
        boundary = {i: h.defect(i) for i in range(lo, hi + 1)}
        f = ProjChainMap.identity(x)
        g = f + ProjChainMap(x, x, boundary, validate=True)
        assert chain_maps_homotopic(g, f, (lo, hi)).value == "true"


class TestIntertwining:
    def test_left_tail_witnesses_are_chain_maps(self):
        setup = Setup.create()
        x = P_on_object(setup, projective(setup.B, "1"), depth=8)
        assert x.window() == (-8, 0) and x.tail.side == "left" and x.tail.period == 1
        idx = ProjChainMap.identity(x)
        found = _solve_intertwining(idx, idx, (-8, 0), strict=True)
        assert found is not None
        for psi in found:
            assert is_chain_map(psi, (-8, 0))

    def test_non_strict_solve_from_the_stored_left_edge(self):
        # the homotopy family reaches one degree past the stored left edge
        setup = Setup.create()
        x = P_on_object(setup, projective(setup.B, "1"), depth=8)
        idx = ProjChainMap.identity(x)
        found = _solve_intertwining(idx, idx, (-8, 0), strict=False)
        assert found is not None
        for psi in found:
            assert is_chain_map(psi, (-8, 0))
            assert _chain_map_invertible(psi, (-8, 0))

    def test_agreement_up_to_homotopy(self, B):
        s1, s2 = cone(B, 1), cone(B, 2)
        F = ProjChainMap.identity(s1)
        G = ProjChainMap(s2, s1, {})
        assert _solve_intertwining(F, G, (0, 1), strict=True) is None
        v = maps_agree_under_identification(F, G, (0, 1))
        assert v.value == "true"
        assert v.reason == "agree under an identification (homotopy)"
        for psi in v.witness:
            assert is_chain_map(psi, (0, 1))

    def test_contractible_against_zero_is_not_certified_false(self, B):
        # S1 is a contractible cone, so S1 ≅ 0 although the given models
        # have different summands; only minimal models may certify "false"
        s1, s2 = cone(B, 1), ProjComplex.zero_complex(B)
        assert iso_in_homotopy_category(s1, s2, window=(0, 1)).value == "true"
        F = ProjChainMap.identity(s1)
        G = ProjChainMap(s2, s1, {})
        assert maps_agree_under_identification(F, G, (0, 1)).value == "inconclusive"

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_cluttered_models_of_the_same_map_are_never_false(self, data):
        """F maps between the minimal models of two cluttered complexes S, T
        and G = G_T∘F∘F_S is F moved onto S and T by the reduction
        witnesses. The objects are isomorphic and the maps correspond, so
        the verdict may be "inconclusive" (the models differ) but never
        "false"."""
        base = data.draw(small_complexes())
        S = data.draw(cluttered(base))
        T = data.draw(cluttered(data.draw(st.one_of(st.just(base), small_complexes()))))
        rS, rT = gaussian_reduce(S), gaussian_reduce(T)
        window = (min(S.window()[0], T.window()[0]) - 1,
                  max(S.window()[1], T.window()[1]) + 1)
        F = ProjChainMap(rS.reduced, rT.reduced, {})
        for f in solve_chain_maps(rS.reduced, rT.reduced, window):
            c = data.draw(st.integers(-2, 2))
            if c:
                F = F + f.scale(c)
        G = rT.from_reduced.compose(F.compose(rS.to_reduced))
        assert is_chain_map(G, window)
        v = maps_agree_under_identification(F, G, window)
        assert v.value in ("true", "inconclusive"), v.reason


def affine_columns(residual, nuk):
    """Probe an affine map r on Q^nuk at the zero and unit vectors: returns
    (column_fn, rhs) with column_fn(k) = r(e_k) - r(0) and rhs = -r(0)."""
    base = residual([Fraction(0)] * nuk)
    return (lambda k: [a - b for a, b in zip(residual(unit_vector(nuk, k)), base)],
            [-x for x in base])


def assert_local_columns_match(ladder, blocks):
    """probe's locally assembled columns and rhs equal the unit-vector probe
    of the whole residual of build(vec)."""
    column, rhs = ladder.probe(blocks)
    whole = affine_columns(
        lambda vec: [x for _, fn in blocks for x in fn(ladder.build(vec))], ladder.n)
    assert ladder.n > 0
    assert rhs == whole[1]
    for j in range(ladder.n):
        assert column(j) == whole[0](j), j


class TestLocalColumns:
    def test_chain_maps_on_a_right_tail(self, B):
        x = cone_chain(B)
        ladder = LadderSystem([LadderFamily(x, x, 0, (0, 7), x.tail)])
        # unknowns stop at 3; the equations at 4..6 read periodic copies only
        assert ladder.degrees[0] == range(0, 4)
        assert_local_columns_match(ladder, ladder.chain_blocks(0))

    def test_chain_maps_on_a_left_tail(self):
        # x is P(2)<2k + 1> in degree -k, joined by ab, and the ladder's
        # pattern has period 2 and shift 4. Degree i follows it while
        # term(i) = term(i + 2)<4> and d(i) = d(i + 2)<4>: true for i <= -3,
        # false at -2, whose reference d(0) is zero (degree 1 is empty). So
        # the seam is -3, the unknowns run one period past it, from -4 to the
        # top, and the copy rule fills -12 .. -5
        setup = Setup.create()
        x = P_on_object(setup, projective(setup.B, "1"), depth=8).materialize(-12, 0)
        ladder = LadderSystem([LadderFamily(x, x, 0, (-12, 0), _common_tail(x, x))])
        assert ladder.degrees[0] == range(-4, 1)
        assert_local_columns_match(ladder, ladder.chain_blocks(0))

    @pytest.mark.parametrize("strict", [True, False])
    def test_intertwining(self, B, strict):
        x = cone_chain(B)
        F = ProjChainMap.identity(x)
        ladder, blocks = _intertwining_system(F, F, (0, 7), strict)
        assert len(ladder.families) == (2 if strict else 3)
        assert_local_columns_match(ladder, blocks)

    def test_strict_intertwining_on_a_left_tail(self):
        setup = Setup.create()
        x = P_on_object(setup, projective(setup.B, "1"), depth=8)
        F = ProjChainMap.identity(x)
        assert_local_columns_match(*_intertwining_system(F, F, (-8, 0), True))

    def test_homotopy_family_with_a_given_map(self, B):
        x = cone_chain(B).materialize(-1, 8)
        ladder = LadderSystem([LadderFamily(x, x, -1, (0, 8), _common_tail(x, x))])
        blocks = ladder.chain_blocks(0, ProjChainMap.identity(x))
        assert any(ladder.probe(blocks)[1])
        assert_local_columns_match(ladder, blocks)


def ladder_over(x, reach, homotopy):
    """The one-family ladder of ``x`` to itself, as the solvers set it up,
    on its stored window grown ``reach`` degrees out on its tail side: the
    chain-map family, or the homotopy family with ``x`` read one degree past
    each side (``solve_homotopy``)."""
    lo, hi = x.window()
    lo, hi = (lo, hi + reach) if x.tail.outward > 0 else (lo - reach, hi)
    if homotopy:
        x = x.materialize(lo - 1, hi + 1)
        return LadderSystem([LadderFamily(x, x, -1, (lo, hi + 1), _common_tail(x, x))])
    x = x.materialize(lo, hi)
    return LadderSystem([LadderFamily(x, x, 0, (lo, hi), _common_tail(x, x))])


class TestWitnessesRepeatAtTheEdge:
    """A witness extends to the semi-infinite complexes only if it repeats
    one ladder period in at the window edge. With the seam walked in to the
    earliest common repeat, the copy rule fills the edge (the ladder seam of
    "Windows and margins"); each of the suite's witnesses repeats there."""

    @pytest.mark.parametrize("N", [16, 24])
    def test_every_tailed_witness_of_the_suite_repeats_one_period_in(self, N):
        seen = []

        def spy(x, y, window):
            v = iso_in_homotopy_category(x, y, window)
            if v.witness is not None and _common_tail(*v.witness[:2]) is not None:
                seen.append((window, v.witness))
            return v

        with mock.patch.object(verify, "iso_in_homotopy_category", spy):
            verify.run_suite(verify.VerificationConfig(window=N))
        assert len(seen) == 4
        for window, (xm, ym, inv) in seen:
            t = _common_tail(xm, ym)
            edge = t.edge(window)
            assert inv.component(edge) == \
                inv.component(edge - t.outward * t.period).shifted(t.shift), (window, t)


class TestOnePlacement:
    """``build`` and the unit columns of ``probe`` place coefficients one
    way and fill the window past the unknown degrees by the tail's copy
    rule. These tests guard the copies: every corpus window grown by one
    degree or more reaches past them."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), name=st.sampled_from(CORPUS_NAMES),
           homotopy=st.booleans(), reach=st.integers(1, 10))
    def test_build_is_the_sum_of_the_unit_placements(self, data, name, homotopy, reach):
        ladder = ladder_over(corpus()[name], reach, homotopy)
        vec = data.draw(st.lists(st.integers(-2, 2), min_size=ladder.n,
                                 max_size=ladder.n))
        built = ladder.build(vec)
        units = {j: ladder._place(ladder._empty(), [(j, 1)]) for j, v in enumerate(vec) if v}
        lo, hi = ladder.families[0].window
        assert len(ladder.degrees[0]) < hi - lo + 1
        for i in range(lo, hi + 1):
            want = ladder._empty()[0].component(i)
            for j, unit in units.items():
                want = want + unit[0].component(i).scale(vec[j])
            assert built[0].component(i) == want, i

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(CORPUS_NAMES), reach=st.integers(1, 10))
    def test_the_identity_builds_from_its_unknown_degrees(self, name, reach):
        ladder = ladder_over(corpus()[name], reach, homotopy=False)
        x = ladder.families[0].source
        ident = {i: AlgMatrix.identity(x.algebra, x.term(i)) for i in ladder.degrees[0]}
        built = ladder.build([ident[i].entries[r][c].coefficient(path)
                              for _, i, (r, c, path) in ladder.unknowns])
        lo, hi = x.window()
        assert len(ladder.degrees[0]) < hi - lo + 1
        for i in range(lo, hi + 1):
            assert built[0].component(i) == AlgMatrix.identity(x.algebra, x.term(i)), i


class TestOneMapType:
    """A homotopy is a ``ProjChainMap`` of degree -1: composing with a chain
    map keeps it a homotopy, maps of different degrees do not add, and each
    ladder family builds one map of its offset."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), c=cluttered_complexes())
    def test_a_reduction_homotopy_composed_with_a_chain_map(self, data, c):
        red = gaussian_reduce(c)
        GF = red.from_reduced.compose(red.to_reduced)
        h = red.homotopy
        assert h.degree == -1 and GF.degree == 0
        lo, hi = c.window()
        k = ProjChainMap.identity(c)
        for f in solve_chain_maps(c, c, (lo, hi)):
            k = k + f.scale(data.draw(st.integers(-2, 2)))
        window = (lo - 1, hi + 1)
        # d(kh) + (kh)d = k(id - GF), and d(hk) + (hk)d = (id - GF)k
        assert k.compose(h).degree == h.compose(k).degree == -1
        assert k.compose(h).witnesses(k, k.compose(GF), window)
        assert h.compose(k).witnesses(k, GF.compose(k), window)

    def test_every_homotopy_is_a_map_of_degree_minus_one(self, B):
        x = cone(B)
        idm, zero = ProjChainMap.identity(x), ProjChainMap(x, x, {})
        equal = chain_maps_homotopic(idm, idm, (0, 1))
        assert equal.reason == "maps are equal"
        solved = chain_maps_homotopic(idm, zero, (0, 1))
        for h in (equal.witness, solved.witness, gaussian_reduce(x).homotopy):
            assert isinstance(h, ProjChainMap) and h.degree == -1

    def test_maps_of_different_degrees_do_not_add(self, B):
        h = gaussian_reduce(cone(B)).homotopy
        with pytest.raises(ConstructionError, match="different degrees"):
            ProjChainMap.identity(cone(B)) + h
        with pytest.raises(ConstructionError, match="different degrees"):
            h - ProjChainMap.identity(cone(B))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), name=st.sampled_from(CORPUS_NAMES), strict=st.booleans())
    def test_build_returns_one_map_per_family_of_its_offset(self, data, name, strict):
        x = corpus()[name]
        F = ProjChainMap.identity(x)
        ladder, _ = _intertwining_system(F, F, x.window(), strict)
        vec = data.draw(st.lists(st.integers(-2, 2), min_size=ladder.n, max_size=ladder.n))
        maps = ladder.build(vec)
        assert [f.degree for f in maps] == [fam.offset for fam in ladder.families] \
            == ([0, 0] if strict else [0, 0, -1])
        for f, fam in zip(maps, ladder.families):
            assert isinstance(f, ProjChainMap)
            assert (f.source, f.target) == (fam.source, fam.target)


# ---------------------------------------------------------------------------
# the seam at the earliest common repeat
# ---------------------------------------------------------------------------

def ref_repeat_start(c, t):
    """The innermost degree from which ``c`` follows ``t`` out to its stored
    edge, by one outward pass over the degrees whose reference is stored,
    comparing each with its reference's shifted copy, built."""
    lo, hi = c.window()
    o, p, s = t.outward, t.period, t.shift
    edge = t.edge((lo, hi))
    e = i = lo + p if o > 0 else hi - p
    while o * (i - edge) <= 0:
        j = i - o * p
        if c.term(i) != shift_summands(c.term(j), s) or \
                (i < hi and c.diff(i) != c.diff(j).shifted(s)):
            e = i + o
        i += o
    return e if o * (e - edge) <= 0 else edge + o


@st.composite
def entries_between(draw, B, rows, cols):
    """An AlgMatrix rows <- cols with random entries on allowed paths."""
    m = AlgMatrix.zero(B, rows, cols)
    for r, tgt in enumerate(rows):
        for k, src in enumerate(cols):
            paths = _allowed_paths(B, tgt, src)
            if paths and draw(st.booleans()):
                m.entries[r][k] = B.element({draw(st.sampled_from(paths)):
                                             draw(st.sampled_from([-1, 1, 2]))})
    return m


@st.composite
def terms(draw):
    return tuple(Summand(draw(st.sampled_from("12")), draw(st.integers(-2, 2)))
                 for _ in range(draw(st.integers(1, 2))))


@st.composite
def periodic_pairs(draw, B):
    """Two complexes with one periodic tail (side, period 1-3, shift) and
    random non-periodic heads of one length, each with the tail
    ``detect_tail`` finds on its stored window. The tails run to edges of
    their own, and each may hold one random term, a break of the pattern,
    which may lie past the other complex's edge. Not validated: the walk
    reads terms and entries only."""
    side = draw(st.sampled_from([LEFT_TAIL, RIGHT_TAIL]))
    p, s = draw(st.integers(1, 3)), draw(st.integers(-4, 4))
    pattern = [draw(terms()) for _ in range(p)]
    nxt = [pattern[k + 1] if k + 1 < p else shift_summands(pattern[0], s)
           for k in range(p)]
    # link k joins pattern[k] to the next degree outward, as d orients it
    links = [draw(entries_between(B, *((nxt[k], pattern[k]) if side == RIGHT_TAIL
                                      else (pattern[k], nxt[k]))))
             for k in range(p)]
    n_head = draw(st.integers(0, 3))
    o = 1 if side == RIGHT_TAIL else -1

    def build(name):
        n_tail = draw(st.integers(3 * p, 6 * p + 2))
        seq = [draw(terms()) for _ in range(n_head)] + \
            [shift_summands(pattern[m % p], s * (m // p)) for m in range(n_tail)]
        broken = draw(st.one_of(st.none(), st.integers(n_head, len(seq) - 1)))
        if broken is not None:
            seq[broken] = draw(terms())
        # index m sits at degree o·m, inward to outward
        t = {o * m: term for m, term in enumerate(seq)}
        d = {}
        for m in range(len(seq) - 1):
            k = m - n_head
            if k >= 0 and broken not in (m, m + 1):
                link = links[k % p].shifted(s * (k // p))
            else:
                a, b = seq[m], seq[m + 1]
                link = draw(entries_between(B, *((b, a) if o > 0 else (a, b))))
            d[min(o * m, o * (m + 1))] = link
        c = ProjComplex(B, t, d, None, name, validate=False)
        return ProjComplex(B, t, d, detect_tail(c, side), name, validate=False)

    X, Y = build("X"), build("Y")
    assume(X.tail is not None and Y.tail is not None)
    return X, Y


class TestSeamWalk:
    """``_common_tail`` walks its seam in to the earliest degree from which
    both complexes follow the doubled pattern, by ``_repeat_start``."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_the_walk_stops_at_the_first_break_and_reads_stored_degrees(self, B, data):
        X, Y = data.draw(periodic_pairs(B))
        t = _common_tail(X, Y)
        assume(t is not None)
        o = t.outward
        outer = max if o > 0 else min
        walked = outer(ref_repeat_start(X, t), ref_repeat_start(Y, t))
        # never past the outer stored edge, and its reference, a period in,
        # is stored in both: the two share their inner edge, degree 0
        (lo, hi), (lo_y, hi_y) = X.window(), Y.window()
        if o > 0:
            assert lo + t.period <= walked <= max(hi, hi_y) + 1
        else:
            assert min(lo, lo_y) - 1 <= walked <= hi - t.period
        # no break at or past it in either complex, out to its own edge
        for c in (X, Y):
            if o * (walked - t.edge(c.window())) <= 0:
                assert _tail_break(c, TailSpec(t.side, walked, t.period, t.shift)) is None
        # the seam only moves in from the outer of the two stored starts
        inner = min if o > 0 else max
        assert t.start == inner(walked, outer(X.tail.start, Y.tail.start))


def duality_maps_systems(N):
    """The unknown count of every ladder system ``duality-maps`` sets up at
    window N, and the block count of each intertwining system it solves."""
    sizes, blocks = [], []
    init, system = LadderSystem.__init__, complexes._intertwining_system

    def counting_init(self, families):
        init(self, families)
        sizes.append(self.n)

    def counting_system(*args):
        ladder, found = system(*args)
        blocks.append(len(found))
        return ladder, found

    with mock.patch.object(LadderSystem, "__init__", counting_init), \
            mock.patch.object(complexes, "_intertwining_system", counting_system):
        verify.run_suite(verify.VerificationConfig(window=N, only=("duality-maps",)))
    return sizes, blocks


def generator_map_comparisons(N):
    """(lhs, rhs, window) of each of the five generator maps that
    ``duality-maps`` compares at window N."""
    seen = []

    def spy(F, G, window):
        seen.append((F, G, window))
        return maps_agree_under_identification(F, G, window)

    with mock.patch.object(verify, "maps_agree_under_identification", spy):
        verify.run_suite(verify.VerificationConfig(window=N, only=("duality-maps",)))
    assert len(seen) == 5
    return seen


class TestLaddersOfConstantSize:
    """The walked seam and the equation cut keep every ladder system of
    ``duality-maps`` the same size at every window (the ladder seam and the
    equation cut of "Windows and margins")."""

    def test_the_largest_system_and_the_blocks_do_not_grow(self):
        """The blocks of a family without a tail stop a period past its
        models' top, so no system keeps one block per window degree."""
        sizes_128, blocks_128 = duality_maps_systems(128)
        sizes_512, blocks_512 = duality_maps_systems(512)
        assert max(sizes_128) == max(sizes_512) == 18
        assert blocks_128 == blocks_512 == [41, 40, 42]

    @pytest.mark.parametrize("N", [16, 24])
    def test_the_cut_keeps_every_kernel_and_solution(self, N):
        """Each system cut, and with every degree kept (no shared pattern,
        so ``cut`` keeps all): the chain maps between the sources and
        between the targets of each generator map of ``duality-maps`` at N,
        its strict and non-strict intertwining systems, and, on each corpus
        complex grown N // 2 degrees on its tail side (the models of
        ``duality-maps`` hold no homotopy unknown), a homotopy for a
        boundary dh + hd and one for the identity."""
        comparisons = generator_map_comparisons(N)
        homotopies = []
        for name in CORPUS_NAMES:
            ladder = ladder_over(corpus()[name], N // 2, homotopy=True)
            (lo, top), x = ladder.families[0].window, ladder.families[0].source
            h = ladder.build([(-1) ** j for j in range(ladder.n)])[0]
            boundary = {i: h.defect(i) for i in range(lo, top)}
            homotopies += [(x, ProjChainMap(x, x, boundary, validate=False), (lo, top - 1)),
                           (x, ProjChainMap.identity(x), (lo, top - 1))]

        def solved():
            out, n_blocks = [], 0
            for F, G, window in comparisons:
                for X, Y in ((F.source, G.source), (F.target, G.target)):
                    out.append([f.maps for f in solve_chain_maps(X, Y, window)])
                for strict in (True, False):
                    ladder, blocks = _intertwining_system(F, G, window, strict)
                    column, _ = ladder.probe(blocks)
                    out.append(kernel_from_columns(column, ladder.n))
                    n_blocks += len(blocks)
            for x, given, window in homotopies:
                found = solve_homotopy(x, x, given, window)
                out.append(None if found is None else found.maps)
            return out, n_blocks

        cut, n_cut = solved()
        with mock.patch.object(LadderSystem, "_pattern", None):
            full, n_full = solved()
        assert cut == full
        assert n_cut < n_full
        # every boundary is null-homotopic
        assert all(h is not None for h in cut[-2 * len(CORPUS_NAMES)::2])
