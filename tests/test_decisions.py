"""The homotopy-category decisions read one window rule, one invertibility
test and one non-isomorphism test. Every verdict exit of
``iso_in_homotopy_category``, ``maps_agree_under_identification`` and
``chain_maps_homotopic`` is reached here by an input whose answer is known
by hand, and the per-isotype invertibility rule that the one rank test
replaced is kept as the reference."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pytest

from jwcat.complexes import (LEFT_TAIL, RIGHT_TAIL, AlgMatrix, ProjChainMap,
                             ProjComplex, Summand, _allowed_paths,
                             _chain_map_invertible, _intertwining_system,
                             _solve_intertwining, chain_maps_homotopic,
                             detect_tail, iso_in_homotopy_category,
                             maps_agree_under_identification)
from jwcat.functors import P_on_object, Setup, projector_depth
from jwcat.linalg import Matrix
from jwcat.modules import projective
from jwcat.quiver import ConstructionError
from test_ladder import cone_chain
from test_window_work import B, small_complexes


def far_p1():
    """P(1)[-5], stored at degree 5 only."""
    x = ProjComplex.from_summand(B, "1").shift(0, -5)
    assert x.window() == (5, 5) and x.tail is None
    return x


class TestWindowCut:
    """A stored term outside the window on a side without a tail makes every
    decision inconclusive: the window would drop it unseen."""

    def test_homotopy_of_the_identity_to_zero_past_the_window(self):
        x = far_p1()
        v = chain_maps_homotopic(ProjChainMap.identity(x), ProjChainMap(x, x, {}), (0, 1))
        assert v.value == "inconclusive"
        assert v.reason == "P(1)<0>[-5] has terms outside the window (0, 1)"

    def test_agreement_of_the_identity_and_zero_past_the_window(self):
        x = far_p1()
        v = maps_agree_under_identification(ProjChainMap.identity(x),
                                            ProjChainMap(x, x, {}), (0, 1))
        assert v.value == "inconclusive"
        assert v.reason == iso_in_homotopy_category(x, x, (0, 1)).reason \
            == "P(1)<0>[-5] has terms outside the window (0, 1)"

    @settings(max_examples=40, deadline=None)
    @given(x=small_complexes(), other=small_complexes(), h=st.integers(-8, 8))
    def test_no_decision_answers_on_a_cut_input(self, x, other, h):
        window = (0, 3)
        y = x.shift(0, h)
        lo, hi = y.window()
        assume(not y.is_zero() and (lo < window[0] or hi > window[1]))
        z = other.clip(*window)
        idy, idz = ProjChainMap.identity(y), ProjChainMap.identity(z)
        verdicts = [iso_in_homotopy_category(y, z, window),
                    iso_in_homotopy_category(z, y, window),
                    chain_maps_homotopic(idy, ProjChainMap(y, y, {}), window),
                    chain_maps_homotopic(idy, idy, window),
                    maps_agree_under_identification(idy, idz, window),
                    maps_agree_under_identification(idz, idy, window),
                    maps_agree_under_identification(idy, idy, window)]
        for v in verdicts:
            assert v.value == "inconclusive", v
            assert v.reason == f"{y.name} has terms outside the window {window}"


class TestEveryVerdictExit:
    def test_bounded_against_tailed(self):
        x = P_on_object(Setup.create(), projective(B, "1"), depth=8)
        assert x.window() == (-8, 0) and x.tail.side == LEFT_TAIL
        clipped = x.clip(-8, 0)
        v = iso_in_homotopy_category(x, clipped, (-8, 0))
        assert v.value == "false"
        assert v.reason == "one side is bounded, the other is not"

    def test_a_bounded_copy_is_not_identified_with_its_tailed_original(self):
        """The identities of P(P(1)) and of its stored degrees without the
        tail. Their objects are not isomorphic, so neither the identity
        shortcut, which compares stored terms and differentials, nor the
        identification search, which then solves as if both were bounded,
        may answer "true"."""
        x = P_on_object(Setup.create(), projective(B, "1"), depth=10)
        assert x.window() == (-10, 0) and x.tail.side == LEFT_TAIL
        cut = ProjComplex(x.algebra, x.terms, x.diffs, None, "cut")
        window = x.window()
        assert iso_in_homotopy_category(x, cut, window).value == "false"
        v = maps_agree_under_identification(ProjChainMap.identity(x),
                                            ProjChainMap.identity(cut), window)
        assert v.value == "false"
        assert v.reason == "objects are not isomorphic"

    def test_tails_on_opposite_sides(self):
        terms = {i: (Summand("2", -2 * i),) for i in range(5)}
        left, right = (ProjComplex(B, terms, {}, detect_tail(ProjComplex(B, terms, {}), side),
                                   side) for side in (LEFT_TAIL, RIGHT_TAIL))
        assert left.tail.side == LEFT_TAIL and right.tail.side == RIGHT_TAIL
        v = iso_in_homotopy_category(left, right, (0, 4))
        assert v.value == "inconclusive"
        assert v.reason == "tail patterns do not align"

    def test_a_reduction_the_window_cuts(self):
        """P(P(1)<1>) against P(P(1))<1> on (0, 12): both are stored on
        (-18, 0) with a left tail, and the window keeps one reduced degree,
        too few to show the tail."""
        setup, window = Setup.create(), (0, 12)
        depth = projector_depth(window)
        x = P_on_object(setup, projective(B, "1").shift(1), depth=depth)
        y = P_on_object(setup, projective(B, "1"), depth=depth).shift(1)
        v = iso_in_homotopy_category(x, y, window)
        assert v.value == "inconclusive"
        assert v.reason == ("reduction of ℙ(P(1)<1>) reaches the window edge "
                            "without a periodic pattern; enlarge the window")

    def test_chain_maps_exist_but_none_is_invertible(self):
        # P(1)<1> --a--> P(2) against the same terms with d = 0: a chain map
        # is zero on P(2), since a is not zero
        t = {0: (Summand("1", 1),), 1: (Summand("2", 0),)}
        x = ProjComplex(B, t, {0: AlgMatrix(B, t[1], t[0], [[B.arrow_element("a")]])},
                        name="x")
        y = ProjComplex(B, t, {}, name="y")
        v = iso_in_homotopy_category(x, y, (0, 1))
        assert v.value == "inconclusive"
        assert v.reason == "no invertible chain map found in the window"

    def test_different_projectives_have_no_identification(self):
        p1, p2 = (ProjComplex.from_summand(B, v) for v in "12")
        F, G = ProjChainMap.identity(p1), ProjChainMap.identity(p2)
        # P(1) -> P(2) has no degree-0 slot, nor P(1) -> 0 a homotopy slot
        for strict in (True, False):
            assert _intertwining_system(F, G, (0, 0), strict)[0].n == 0
            assert _solve_intertwining(F, G, (0, 0), strict) is None
        v = maps_agree_under_identification(F, G, (0, 0))
        assert v.value == "false"
        assert v.reason == "objects are not isomorphic"

    def test_homotopy_of_maps_between_different_complexes_is_an_error(self):
        p1, p2 = (ProjComplex.from_summand(B, v) for v in "12")
        with pytest.raises(ConstructionError, match="share source and target"):
            chain_maps_homotopic(ProjChainMap.identity(p1), ProjChainMap.identity(p2),
                                 (0, 0))

    def test_a_homotopy_that_is_not_periodic(self):
        # the projection onto the second cone of a right-tailed chain of
        # cones is null-homotopic through h_3 alone, but a periodic h has
        # h_7 = h_3<-4>, which the zero map on the fourth cone forbids
        x = cone_chain(B)
        e2 = B.idempotent("2")
        f = ProjChainMap(x, x, {i: AlgMatrix(B, x.term(i), x.term(i), [[e2]])
                                for i in (2, 3)})
        v = chain_maps_homotopic(f, ProjChainMap(x, x, {}), (0, 7))
        assert v.value == "inconclusive"
        assert v.reason == "solvable on the window but not periodically"


# ---------------------------------------------------------------------------
# the per-isotype invertibility rule, as reference
# ---------------------------------------------------------------------------

def ref_invertible(f, window):
    """Equal summand multisets in every degree, then an invertible scalar
    block per isotype."""
    lo, hi = window
    for i in range(lo, hi + 1):
        src, tgt = f.source.term(i), f.target.term(i)
        if sorted((s.vertex, s.shift) for s in src) != \
                sorted((s.vertex, s.shift) for s in tgt):
            return False
        m = f.component(i)
        isotypes = {}
        for k, s in enumerate(src):
            isotypes.setdefault((s.vertex, s.shift), ([], []))[0].append(k)
        for k, s in enumerate(tgt):
            isotypes.setdefault((s.vertex, s.shift), ([], []))[1].append(k)
        for cols, rows in isotypes.values():
            if not Matrix(len(rows), len(cols), [[m.entries[r][c].scalar_part() for c in cols]
                                                 for r in rows]).is_invertible():
                return False
    return True


SUMMANDS = [Summand(v, r) for v in "12" for r in (-1, 0, 1)]


@st.composite
def degree_zero_maps(draw):
    """A random degree-0 component between random summand tuples: the
    target a reordering of the source, any tuple, or empty."""
    src = tuple(draw(st.lists(st.sampled_from(SUMMANDS), max_size=4)))
    tgt = draw(st.one_of(st.permutations(src), st.lists(st.sampled_from(SUMMANDS), max_size=4),
                         st.just(())))
    tgt = tuple(tgt)
    entries = [[B.element({p: draw(st.sampled_from([0, 1, -1, 2]))
                           for p in _allowed_paths(B, t, s)})
                for s in src] for t in tgt]
    source = ProjComplex(B, {0: src}, {}, name="S")
    target = ProjComplex(B, {0: tgt}, {}, name="T")
    return ProjChainMap(source, target, {0: AlgMatrix(B, tgt, src, entries)})


class TestOneRankTest:
    @settings(max_examples=300, deadline=None)
    @given(f=degree_zero_maps())
    def test_the_rank_test_is_the_per_isotype_rule(self, f):
        assert _chain_map_invertible(f, (0, 0)) == ref_invertible(f, (0, 0))
        assert _chain_map_invertible(f, (-1, 1)) == ref_invertible(f, (-1, 1))

    def test_both_answers_occur(self):
        t = (Summand("2", 0), Summand("1", 0), Summand("2", 0))
        x = ProjComplex(B, {0: t}, {}, name="x")
        e1, e2, z = B.idempotent("1"), B.idempotent("2"), B.zero()
        swap = ProjChainMap(x, x, {0: AlgMatrix(B, t, t, [[z, z, e2], [z, e1, z], [e2, z, z]])})
        twice = ProjChainMap(x, x, {0: AlgMatrix(B, t, t, [[e2, z, e2], [z, e1, z], [e2, z, e2]])})
        assert _chain_map_invertible(swap, (0, 0)) and ref_invertible(swap, (0, 0))
        assert not _chain_map_invertible(twice, (0, 0)) and not ref_invertible(twice, (0, 0))
